"""Simulation engine: slot loop, energy ledger, events, metrics."""

import bisect
import contextlib
import dataclasses
import io
import linecache
import math
import sys
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import eamsim.cli as cli
import eamsim.detector as detector
import eamsim.engine as engine
from eamsim.apps import AppSpec, Profile, TaskSpec, builtin_app
from eamsim.config import apply_overrides, build_sim_config, load_config
from eamsim.detector import DetectorConfig, band_bottom, band_top, detect
from eamsim.energy import (
    Capacitor,
    CapacitorBank,
    Component,
    UlpSum,
    drain,
    energy_at,
    energy_of,
    repeat_add,
    slot_constants,
    slot_update,
    total_capacity,
)
from eamsim.engine import (
    PROFILE_ORDER,
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
from conftest import (
    CONFIGS,
    NOISY_HVAC,
    WORKLOADS,
    assert_run_matches_steps,
    count_draws,
    full_bank_config,
    of_kind,
)

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
    aborts = of_kind(log, "abort")
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
    state_kinds = [(e[3], e[4]) for e in of_kind(log, "state") if e[2] == "T"]
    assert ("running", "suspended") in state_kinds
    assert abs(residual(log)) < 1e-9


def test_execution_aborts_on_brownout():
    report, log = run(one_task_config(sigma=0.2, horizon=10.0))
    aborts = of_kind(log, "abort")
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
    resets = of_kind(log, "budget_reset")
    assert len(resets) == 1
    t, _, energies = resets[0]
    assert t == 50.0  # first slot of the first attack
    target = 0.3 * (0.5 * 100e-6 * 9.0)  # soc * capacity at v_max
    assert energies == pytest.approx([target, target], rel=1e-12)
    assert log.totals["reset_delta"] < 0  # buffers were fuller than the budget
    assert abs(residual(log)) < 1e-9


def test_equal_budget_without_soc_restores_initial_energies():
    _, log = run(budget_config(budget_soc=None))
    (reset,) = of_kind(log, "budget_reset")
    initial = energy_at(Capacitor(capacitance=100e-6), 2.2)
    assert reset[2] == pytest.approx([initial, initial], rel=1e-12)


def test_budget_reset_logs_energies_in_buffer_order():
    config = budget_config(budget_soc=None)
    config.bank.capacitors[0].capacitance = 1000e-6  # buffer 0 now holds the most
    _, log = run(config)
    (reset,) = of_kind(log, "budget_reset")
    energies = reset[2]
    assert energies[0] > energies[1]
    (line,) = [ln for ln in log.export_lines() if ",budget_reset," in ln]
    assert line.split(",")[2] == "+".join(str(e) for e in energies)


def test_equal_budget_is_inert_without_attacks():
    _, log = run(budget_config(attacks=[]))
    assert of_kind(log, "budget_reset") == []
    assert log.totals["reset_delta"] == 0.0


def test_no_reset_when_flag_is_off():
    _, log = run(budget_config(equal_budget=False))
    assert of_kind(log, "budget_reset") == []


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
    assert of_kind(log, "attack_seen") == [
        (103.0, "attack_seen", "begin"),  # onset surfaces after the delay
        (140.0, "attack_seen", "end"),
    ]
    # 37 s of attack left at detection: below alpha, so the short profile.
    assert of_kind(log, "profile") == [
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
        # Flat columns of float64, int8 and int16, the voltages row-major.
        assert (log.timeline_v.typecode, len(log.timeline_v)) == ("d", rows * 1)
        assert (log.timeline_profile.typecode, len(log.timeline_profile)) == ("b", rows)
        assert (log.timeline_running.typecode, len(log.timeline_running)) == ("h", rows)
        # Row r is slot i = r * stride, at the t = i * dt that slot computes.
        times = list(map(float.hex, log.timeline_times(0, rows)))
        assert times == [((r * stride) * 0.005).hex() for r in range(rows)]
        assert times == [(i * 0.005).hex() for i in range(0, n, stride)]
        assert list(map(float.hex, log.timeline_times(5, 9))) == times[5:9]


def test_timeline_stride_zero_disables_sampling():
    _, log = run(one_task_config(horizon=1.0, timeline_stride=0))
    assert log.timeline_profile is None and log.timeline_v is None
    assert log.timeline_running is None


def timeline_config(buffers, stride, rows):
    """A chain of one task per buffer under a sine harvest that a reported
    attack cuts, giving exactly `rows` timeline rows at `stride`.  One buffer
    is central's merge of two; two and three buffers run eam."""
    dt, n_slots = 0.01, stride * (rows - 1) + 1
    horizon = n_slots * dt
    caps = [Capacitor(capacitance=c, voltage=2.0) for c in (33e-6, 220e-6, 100e-6)]
    caps = caps[: max(buffers, 2)]
    bank = CapacitorBank(capacitors=caps,
                         component_map={b: (c,) for b, c in zip(range(len(caps)), Component)})
    tasks = tuple(
        TaskSpec(id=f"T{b}", energy_cost=20e-6, duration=0.05, buffer=b,
                 rates={p: 720.0 for p in Profile}, predecessors=(f"T{b - 1}",) if b else ())
        for b in range(len(caps))
    )
    return SimConfig(
        trace=synthesize_trace("sinusoid", 3.0, horizon + 1.0, 0.1, 20.0),
        app=AppSpec(name="chain", tasks=tasks, sink_task=tasks[-1].id),
        bank=bank,
        params=PolicyParams(decision_cost=1e-9),
        attacks=[AttackScenario(0.3 * horizon, 0.3 * horizon)],
        policy="central" if buffers == 1 else "eam",
        dt=dt,
        horizon=horizon,
        timeline_stride=stride,
    )


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("buffers", [1, 2, 3])
def test_timeline_csv_round_trips(tmp_path, buffers, stride):
    """timeline.csv, written a block of rows at a time, holds every row of
    the run's columns: times as repr(i * dt), voltages that parse back to
    their array values bit for bit, and the profile and running names."""
    block = cli.TIMELINE_BLOCK
    seen = set()
    for rows in (block - 1, block, block + 1, 2 * block + 1):
        config = timeline_config(buffers, stride, rows)
        _, log = run(config)
        path = tmp_path / "timeline.csv"
        cli._write_atomic(path, cli._timeline_lines(log, config.app))
        lines = path.read_text().split("\n")
        assert lines.pop() == ""  # every line ends with a newline
        volts = [f"v{b}_volts" for b in range(buffers)]
        assert lines[0] == ",".join(["time_s", *volts, "profile", "running"])
        assert len(lines) == 1 + rows
        ids = [task.id for task in config.app.tasks]
        for r, line in enumerate(lines[1:]):
            t, *vs, profile, running = line.split(",")
            assert t == repr((r * stride) * config.dt)
            assert len(vs) == buffers
            for b, s in enumerate(vs):
                assert repr(float(s)) == s
                assert float(s).hex() == log.timeline_v[r * buffers + b].hex()
            assert profile == PROFILE_ORDER[log.timeline_profile[r]].value
            k = log.timeline_running[r]
            assert running == (ids[k] if k >= 0 else "")
            seen.add((profile, running))
    # Not vacuous: tasks ran and, under eam, the attack changed the profile.
    assert {running for _, running in seen} == {"", *ids}
    assert (len({profile for profile, _ in seen}) > 1) == (buffers > 1)


def test_timeline_export_memory_does_not_grow_with_the_row_count():
    """The exporter renders a block of rows at a time, so the traced peak of
    draining _timeline_lines stays under a bound fixed in advance (2 MB) at
    100,000 rows and is the same at 10,000.  A full-length time column alone
    would take 3.2 MB at 100,000 rows."""
    peaks = []
    for rows in (10_000, 100_000):
        horizon = rows * 0.02
        config = one_task_config(horizon=horizon, timeline_stride=1,
                                 trace=synthesize_trace("sinusoid", 3.0, horizon + 1.0, 1.0, 60.0))
        _, log = run(config)
        assert len(log.timeline_profile) == rows
        tracemalloc.start()
        try:
            for _ in cli._timeline_lines(log, config.app):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 2_000_000
    assert peaks[1] < 1.05 * peaks[0]


# --------------------------------------------- engine mirrors the buffer law


def test_engine_buffer_integration_matches_slot_update():
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
    v = cfg.trace.voltages[0]  # a constant trace: every sample is 2.5 V
    power = v * v / cfg.trace.load_resistance
    constants, ledger = (slot_constants(twin),), [0.0, 0.0, 0.0]
    expected = []
    for _ in range(2000):
        slot_update((twin,), constants, (power,), 0.05, ledger)
        expected.append(twin.voltage)
    assert log.timeline_v.tolist() == expected  # one buffer: a row is one voltage
    assert abs(residual(log)) < 1e-9


# ------------------------------------------------------------- idle spans


# -------------------------------------------------------------- power runs


def per_slot_powers(config, n_slots):
    """Harvested power sampled slot by slot, as step's order describes it:
    the trace voltage held since the last sample at or before i * dt, zero
    inside any attack window, then V^2 / R."""
    times, volts = config.trace.times, config.trace.voltages
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
    assert array("d", expand_runs(sim)).tobytes() == array("d", expected).tobytes()
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
    trace = EnergyTrace(times, volts, 30e3)
    return one_task_config(trace=trace, attacks=draw(st.permutations(attacks)),
                           dt=dt, horizon=horizon)


def tie_config(times, volts, attacks, dt=0.003, n_slots=40):
    """A one-task config of given samples and (start, duration) attacks on a
    horizon of n_slots slots of dt."""
    return one_task_config(
        trace=EnergyTrace(times, volts, 30e3),
        attacks=[AttackScenario(start, length, "short", f"a{k}")
                 for k, (start, length) in enumerate(attacks)],
        dt=dt, horizon=n_slots * dt)


DT = 0.003
BELOW, ABOVE = -math.inf, math.inf


def ulp(x, toward):
    return math.nextafter(x, toward)


# Samples at an attack's start and end, both on a slot's own t = k * dt: the
# sample goes before the equal edge.
EDGE = AttackScenario(7 * DT, 9 * DT)
SAMPLE_ON_EDGE = tie_config([0.0, EDGE.start, EDGE.end, 0.09, 0.2], [1.5, 2.0, 3.3, 2.0, 1.5],
                            [(EDGE.start, EDGE.duration)])
# Samples and attack starts on a slot's own t = k * dt and one ulp either side
# of it.  With dt = 0.003, x / dt rounds up past 12 and 24 at x = 12 * dt and
# 24 * dt, and down to 9 and 20 one ulp above 9 * dt and 20 * dt, so only the
# step down or up of _first_slot finds their first slots.
SLOT_TIES = tie_config(
    [0.0, ulp(12 * DT, BELOW), 12 * DT, ulp(12 * DT, ABOVE), ulp(20 * DT, ABOVE), 0.2],
    [1.5, 2.0, 3.3, 2.0, 3.3, 1.5],
    [(ulp(3 * DT, BELOW), 2 * DT), (ulp(9 * DT, ABOVE), DT), (24 * DT, 5 * DT)])
# Attack edges at t = 0 and past the horizon, and an attack that starts at the
# horizon itself.
OUTER_EDGES = tie_config([0.0, 0.05, 0.2], [2.0, 3.3, 1.5],
                         [(0.0, 2 * DT), (37 * DT, 10 * DT)])
AT_HORIZON = tie_config([-0.5, 0.05, 0.2], [2.0, 3.3, 1.5], [(0.0, 20 * DT), (40 * DT, 1.0)])


@given(sampled_power_configs())
@example(SAMPLE_ON_EDGE)
@example(SLOT_TIES)
@example(OUTER_EDGES)
@example(AT_HORIZON)
def test_power_runs_equal_sampling_every_slot(config):
    assert validate_config(config) == []
    assert_runs_match_sampling(config)
    # _first_slot alone places a span's end on an attack edge or a release.
    assert_run_matches_steps(config)


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


def test_every_hold_replays_at_least_one_slot(monkeypatch):
    """_quiet_span calls _hold after each slot that leaves the bank as it
    found it, and each call replays one slot or more: the rest of its power
    run or, from a run's last slot, the runs it carries into.  There are 73
    calls on the one-hour hvac run and 20 on attack_storm variant 5.  When a
    hold stopped at its run's end there were 3,210 and 33, and before
    _quiet_span skipped the calls with no slot left in the run, 18 of 3,228
    and 19 of 52 replayed nothing.

    The closed form (energy.UlpSum.add) runs once per _charge call for
    charged, once per power run a hold crosses for charged and a nonzero
    spilled, and once per hold for the leak and the decision drain: 6,993
    adds on the hvac run and 1,574 on the storm variant.  A hold keeps
    charged and spilled in ulps across its runs, so only 573 and 1,508 of
    them start from a float, through energy.repeat_add (6,993 and 1,574 when
    each add was an engine._repeat_add call).  A hold judges each power run
    it crosses by one slot of energy.bank_slot on the held energies, the
    last one where the slot would move a voltage: 3,269 on the hvac run
    (3,210 runs carried and 59 that stop a hold) and 34 on the storm variant
    (33 and 1).  When trial slots on the live bank judged the runs, and a run
    that clipped every buffer needed none, there were 132 and 21 trials."""
    lengths, counts = [], dict.fromkeys(("add", "repeat_add", "verdict"), 0)
    hold, repeat, add, judge = engine._hold, engine.repeat_add, UlpSum.add, engine.bank_slot

    def counted(sim, i, r, stop, check, shares):
        out = hold(sim, i, r, stop, check, shares)
        lengths.append(out[0] - i)
        return out

    def counted_adds(total, addends, k):
        counts["add"] += 1
        return add(total, addends, k)

    def counted_sums(s, addends, k):
        counts["repeat_add"] += 1
        return repeat(s, addends, k)

    def counted_verdicts(energies, constants, shares, dt):
        counts["verdict"] += sys._getframe(1).f_code.co_name == "_hold"
        return judge(energies, constants, shares, dt)

    monkeypatch.setattr(engine, "_hold", counted)
    monkeypatch.setattr(UlpSum, "add", counted_adds)
    monkeypatch.setattr(engine, "repeat_add", counted_sums)
    monkeypatch.setattr(engine, "bank_slot", counted_verdicts)
    for doc, calls, expected in (
            (load_config(CONFIGS / "hvac_attack.yaml"), 73,
             {"add": 6_993, "repeat_add": 573, "verdict": 3_269}),
            (WORKLOADS.storm_config(5), 20, {"add": 1_574, "repeat_add": 1_508, "verdict": 34})):
        lengths.clear()
        counts.update(dict.fromkeys(counts, 0))
        run(build_sim_config(doc))
        assert len(lengths) == calls and min(lengths) >= 1
        assert counts == expected


def test_holds_carry_the_hvac_run_across_its_power_runs(monkeypatch):
    """The one-hour hvac run has 3,541 power runs.  Its bank sits full at a
    fixed point through most of them, and a hold carries on from run to run
    while one slot of the run on the held energies (energy.bank_slot) moves
    nothing, so the span checks and charges only where the bank moves: its
    73 holds cross 3,210 of the runs.  When each hold stopped
    at its run's end, _charge ran 3,564 times (3,139 of them for one slot),
    _next_check 3,626 times and _hold 3,210 times.  A hold changes no task
    state, so it splits each run's power by the weights held:
    allocate_harvest runs 756 times, from step and the span's checks (3,952
    when _hold called it on each run it carried into)."""
    counted_names = ("_charge", "_next_check", "_hold", "allocate_harvest")
    calls = dict.fromkeys(counted_names, 0)

    def counting(name):
        inner = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    for name in counted_names:
        monkeypatch.setattr(engine, name, counting(name))
    config = build_sim_config(load_config(CONFIGS / "hvac_attack.yaml"))
    assert len(init_sim(config).run_ends) == 3_541
    report, log = run(config)
    assert calls == {"_charge": 427, "_next_check": 489, "_hold": 73, "allocate_harvest": 756}
    assert report.overhead_invocations == log.totals["n_slots"]
    assert abs(residual(log)) < 1e-9


def test_a_compare_compiles_one_charge_loop_per_bank_width(monkeypatch, tmp_path):
    """_charge's loop is compiled once per bank width in a process and
    cached: a compare of the three policies on a two-buffer bank compiles
    two, for the federated bank and for central's one merged buffer.  Each
    one's file name gives its width, and linecache holds its source, so a
    traceback shows which loop failed and on which line."""
    kernels, compiled = {}, []
    compile_charge = engine._compile_charge

    def counted(m):
        compiled.append(m)
        return compile_charge(m)

    monkeypatch.setattr(engine, "_CHARGE_KERNELS", kernels)
    monkeypatch.setattr(engine, "_compile_charge", counted)
    rc = cli.main(["compare", "--config", str(CONFIGS / "compare_constant_30s.yaml"),
                   "--policies", "eam,fh,central", "--attack-durations", "30,45",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(compiled) == sorted(kernels) == [1, 2]
    for m, kernel in kernels.items():
        filename = kernel.__code__.co_filename
        assert filename == f"<eamsim.engine._charge for {m} buffers>"
        assert linecache.getline(filename, 1).startswith("def _charge(sim, ")


def test_a_hold_under_a_report_stops_at_its_check_and_its_run():
    """Under a reported attack the span's checks read the clock, so _hold
    replays only to the next check and the end of its power run, and never
    carries into the next run.  Today a report falls inside one zero-power
    run, so only a direct call reaches a run's end under a report; this pins
    the rule for attacks that leave some power.  Here a full bank stays at
    its ceiling from slot 1 on under a power that changes every second, and
    outside a report the same hold carries across all 200 runs to the
    span's stop."""
    config = full_bank_config("eam", EnergyTrace([float(k) for k in range(201)],
                                                 [3.0 + 0.01 * (k % 7) for k in range(201)],
                                                 30e3))
    for check, expected in ((50, (50, 0)), (5_000, (100, 0)), (None, (20_000, 199))):
        sim = init_sim(config)
        step(sim)
        step(sim)  # slot 1 leaves the full bank as it found it
        shares = sim.allocate_fn(sim.sched, sim.app, sim.bank, sim.run_powers[0], sim.params)[1]
        assert engine._hold(sim, 2, 0, 20_000, check, shares)[:2] == expected
        assert sim.bank.capacitors[0].voltage == 3.0


def test_run_skips_the_policy_inside_a_noisy_reported_attack(monkeypatch):
    """With a late, noisy detector, eam's quiet spans cover the reported
    attack and the slots whose tasks wait for energy, and the detector draws
    its noise only where a threshold lies inside the noise band (2,812
    draws)."""
    config = build_sim_config(apply_overrides(load_config(CONFIGS / "hvac_attack.yaml"),
                                              list(NOISY_HVAC)))
    calls = [0]
    policy_step = engine.policy_step

    def counted(*args):
        calls[0] += 1
        return policy_step(*args)

    monkeypatch.setattr(engine, "policy_step", counted)
    draws = count_draws(monkeypatch)
    report, log = run(config)
    n_slots = log.totals["n_slots"]
    assert n_slots == 120_000
    assert len(of_kind(log, "profile")) == 980  # the estimates do cross alpha
    # A profile switch ends the span and step applies it: 47 calls.
    assert calls[0] <= 60
    assert 0 < draws[0] <= 4_000
    assert report.overhead_invocations == n_slots


def test_run_spans_profile_switches_and_running_tasks_in_an_attack_storm(monkeypatch):
    """attack_storm variant 5: a four-task pipeline released every second, a
    noisy late detector over eight attacks and 22,728 SA/LA switches.  The
    policy runs on 3,718 of the 300,000 slots (33,502 when every profile
    switch and every slot with a running task was stepped); _charge settles
    nearly all of the switches, and a switch found by a span check goes to
    step.  detect builds 795 reports: _charge settles a slot from its
    estimate alone (58,431 when it built a report per settled slot).  The
    noise is drawn on the 58,057 slots whose band straddles alpha, every
    way, each a reseeding of the detector's generator.  The span checks 2,097
    times (2,110 when each hold stopped at its power run's end), and
    _slot_tail runs 11,030 times: on step's slots and on the span's slots
    with a task running (59,882 and 68,736 when the span stepped the
    band-straddle slots, 149,449 and 159,945 when every slot of a noisy
    report was checked).  _charge runs 1,468 times (1,481 when each hold
    stopped at its power run's end, 2,023 when a span's end was bounded a
    slot or two short of its limit and each slot up to the limit went
    through _charge on its own).  _charge looks for a new stop with
    _first_slot after 38 of its 22,472 switches, those that bring the next
    release forward (after each switch when it did not compare)."""
    config = build_sim_config(WORKLOADS.storm_config(5))
    counted_names = ("policy_step", "detect", "_slot_tail", "_next_check", "_charge")
    calls = dict.fromkeys(counted_names, 0)
    charge_stops = [0]

    def counting(name):
        inner = getattr(engine, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    def first_slot(x, dt, n):  # counts the calls _charge makes
        charge_stops[0] += sys._getframe(1).f_code.co_name == "_charge"
        return engine_first_slot(x, dt, n)

    engine_first_slot = engine._first_slot
    for name in counted_names:
        monkeypatch.setattr(engine, name, counting(name))
    monkeypatch.setattr(engine, "_first_slot", first_slot)
    draws = count_draws(monkeypatch)
    report, log = run(config)
    n_slots = log.totals["n_slots"]
    assert n_slots == 300_000
    assert len(of_kind(log, "profile")) == 22_728
    assert calls["policy_step"] <= 4_000
    assert calls["detect"] <= 1_000
    assert calls["_slot_tail"] <= 12_000
    assert calls["_next_check"] <= 3_000
    assert calls["_charge"] <= 1_600
    assert charge_stops == [38]
    assert draws == [58_057]
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
    with mock.patch.object(detector, "_reseed", side_effect=AssertionError("noise drawn")):
        for s in range(i + 1, hold):
            assert detect(s * dt, config.attacks, config.detector).remaining_exceeds(alpha)
        for s in range(hold, j):
            assert not detect(s * dt, config.attacks, config.detector).never_exceeds(alpha)
    assert hold == sim.n_slots or band_bottom(end - hold * dt, err) <= alpha
    assert not settle or j == sim.n_slots or band_top(end - j * dt, err) <= alpha


def plain_sum(s, addends, k):
    for _ in range(k):
        for a in addends:
            s += a
    return s


@st.composite
def repeated_sums(draw):
    """(s, addends, k) for energy.repeat_add: a normal or subnormal sum, one
    to three addends of any size, a fraction of s (so that the sums cross
    binades within k rounds) or a count of half ulps of s (so that many lie
    halfway between two floats), and up to 12,000 rounds."""
    s = draw(st.floats(0.0, 1e300) | st.floats(0.0, 1e-300))
    half_ulp = math.ulp(s) / 2
    addend = (
        st.floats(0.0, 1e300)
        | st.builds(lambda r, j: r * s * 2.0**-j, st.floats(0.0, 2.0), st.integers(0, 60))
        | st.builds(lambda w: w * half_ulp, st.integers(0, 2**20))
    )
    return s, tuple(draw(st.lists(addend, min_size=1, max_size=3))), draw(st.integers(1, 12_000))


@st.composite
def runs_of_sums(draw):
    """((s, addends, k), later): repeated_sums, then zero to four further
    (addends, k) runs, each of one to three addends drawn as repeated_sums
    draws them from s."""
    s, addends, k = drawn = draw(repeated_sums())
    half_ulp = math.ulp(s) / 2
    addend = (
        st.floats(0.0, 1e300)
        | st.builds(lambda r, j: r * s * 2.0**-j, st.floats(0.0, 2.0), st.integers(0, 60))
        | st.builds(lambda w: w * half_ulp, st.integers(0, 2**20))
    )
    runs = st.tuples(st.lists(addend, min_size=1, max_size=3).map(tuple), st.integers(0, 3_000))
    return drawn, draw(st.lists(runs, max_size=4))


@given(runs_of_sums())
@example(((1.0, (3 * 2.0**-53,), 10_000), []))  # 1.5 ulps: halfway, the sum's last bit decides
@example(((1.0 + 2.0**-52, (2.0**-53, 2.0**-50), 10_000), []))  # halfway from an odd sum
@example(((2.0 - 2.0**-52, (2.0**-52,), 10_000), []))  # one ulp below a power of two
@example(((2.0 - 2.0**-52, (2.0**-52, 3 * 2.0**-52), 5), []))
@example(((0.0, (0.0,), 10_000), []))
@example(((0.0, (1e-3, 2e-3), 10_000), []))
@example(((-0.0, (0.0,), 3), []))
@example(((-0.0, (-0.0,), 3), []))
@example(((5e-324, (5e-324,), 10_000), []))  # subnormal, into the first normal binade
@example(((1e-310, (3e-311, 0.0), 10_000), []))
@example(((1.0, (3.0,), 10_000), []))  # an addend larger than s
@example(((1.0, (0.0, 0.0), 10_000), []))  # all-zero addends
@example(((1.0, (0.0, 0.1), 10_000), []))
@example(((1.0, (0.1,), 1), []))  # a single round
# A halfway run, one that crosses a binade's edge, then one from the next binade.
@example(((2.0 - 2.0**-50, (2.0**-53,), 3), [((3 * 2.0**-52,), 5), ((2.0**-52, 1e-3), 7)]))
def test_repeat_add_equals_adding_float_by_float(case):
    """energy.repeat_add, which _charge and _hold advance the ledger sums
    with, leaves the very float that adding the addends k times in turn
    leaves.  So do two calls over k1 and k - k1 rounds.  A hold keeps
    charged and spilled in one energy.UlpSum across the power runs it
    crosses, each run adding its own addends k times; after each run the
    sum is the float that adding every run's addends in turn leaves."""
    (s, addends, k), later = case
    expected = plain_sum(s, addends, k).hex()
    assert repeat_add(s, addends, k).hex() == expected
    for k1 in {0, 1, k // 3, k // 2, k - 1}:
        split = repeat_add(repeat_add(s, addends, k1), addends, k - k1)
        assert split.hex() == expected
    total, plain = UlpSum(s), s
    for addends, k in [(addends, k)] + later:
        total.add(addends, k)
        plain = plain_sum(plain, addends, k)
        assert total.value().hex() == plain.hex()


@st.composite
def held_full_banks(draw):
    """(bank, constants, decision cost, dt, shares): one to three buffers,
    each at the voltage a slot that clips it leaves, as slot_update writes
    it from the ceiling, leaking nothing (keep == 1.0) or a little, and one
    share per buffer, 0.0 or a multiple of the gain that brings the buffer
    to its ceiling after its leak (at least half an ulp of the ceiling)
    around 1, so that a slot clips it or falls just short.  A third of the
    banks take factors of at least 1, which clip every buffer; a third take
    factors around 1; and a third leak from every buffer and take factors
    below 1, which move each voltage."""
    kind = draw(st.sampled_from(["clip", "around", "short"]))
    leak = st.sampled_from([0.0, 1e-7]) | st.floats(0.0, 0.01)
    factor = {"clip": st.sampled_from([1.0 + 2.0**-40, 2.0]) | st.floats(1.0, 4.0),
              "around": st.sampled_from([0.0, 0.25, 0.5, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 2.0])
              | st.floats(0.0, 4.0),
              "short": st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999)}[kind]
    if kind == "short":
        leak = st.sampled_from([1e-7]) | st.floats(1e-9, 0.01)
    caps = []
    for _ in range(draw(st.integers(1, 3))):
        v_max = draw(st.floats(2.5, 5.0))
        cap = Capacitor(capacitance=draw(st.floats(1e-6, 1e-3)),
                        efficiency=draw(st.floats(0.1, 1.0)),
                        drain_fraction=draw(leak),
                        v_max=v_max)
        c = slot_constants(cap)
        v = math.sqrt(2.0 * c[4] / c[5])
        cap.voltage = v if v < v_max else v_max
        caps.append(cap)
    constants = [slot_constants(cap) for cap in caps]
    cost = draw(st.sampled_from([0.0, 1.781e-9]) | st.floats(0.0, 1e-6))
    dt = draw(st.sampled_from([0.005, 0.01, 1.0]))
    held = caps[0].voltage
    drain(caps[0], cost)
    shares = tuple(
        max(c[4] - c[1] * energy_of(cap), math.ulp(c[4]) / 2) / (c[3] * dt) * draw(factor)
        for cap, c in zip(caps, constants))
    caps[0].voltage = held
    return CapacitorBank(capacitors=caps), constants, cost, dt, shares


def two_run_sim(bank, cost, dt):
    """A sim of two slots, each a power run of its own, on a copy of bank,
    paying a decision cost of cost J per slot, with ledger sums away from
    zero."""
    config = full_bank_config("fh", synthesize_trace("constant", 3.0, 200.0, 1.0),
                              n_buffers=len(bank))
    config = dataclasses.replace(
        config,
        bank=CapacitorBank(capacitors=bank.capacitors, component_map=config.bank.component_map),
        params=PolicyParams(decision_cost=cost), dt=dt, horizon=2 * dt)
    sim = init_sim(config)
    sim.run_ends, sim.run_powers = [1, 2], [3.0, 3.0]
    sim.ledger[:] = [1e-3, 1e-4, 1e-5]
    sim.decision_drained = 1e-6
    return sim


def sums_of(sim):
    return [x.hex() for x in (*sim.ledger, sim.decision_drained)]


def test_a_hold_judges_each_run_as_one_slot_of_the_charge_loop():
    """_hold judges each power run it crosses by one slot of
    energy.bank_slot on the held energies, buffer 0's after the decision
    drain, and carries on where that slot leaves every voltage as it is.
    Here a hold starts on a full bank under shares that clip every buffer
    and crosses into a second run under drawn shares.  Both verdicts, their
    voltages and terms, and the ledger sums the hold leaves are those of
    running the two slots with the compiled _charge loop, the other home of
    the slot physics, bit for bit, on banks of one to three buffers: a share
    of 0.0, or a gain that leaves a buffer at or below its ceiling, may move
    a voltage and stop the hold.  _hold writes no voltage.  Both verdicts
    are drawn, each in at least one run of four."""
    verdicts, judge = [], engine.bank_slot

    @given(held_full_banks())
    @example((CapacitorBank(capacitors=[Capacitor(capacitance=1e-4, drain_fraction=0.0,
                                                  v_max=4.0, voltage=4.0)]),
              [slot_constants(Capacitor(capacitance=1e-4, drain_fraction=0.0, v_max=4.0))],
              0.0, 0.01, (2.0**-66 / (0.9 * 0.01),)))  # rounds back to the ceiling exactly
    def check(drawn):
        bank, _, cost, dt, shares = drawn
        full = (1e3,) * len(shares)
        held = [cap.voltage for cap in bank.capacitors]
        slots = []

        def judged(*args):
            slots.append(judge(*args))
            return slots[-1]

        sim = two_run_sim(bank, cost, dt)
        with mock.patch.object(engine, "bank_slot", judged), \
                mock.patch.object(engine, "split_power", lambda power, weights: shares):
            i, r, _ = engine._hold(sim, 0, 0, 2, None, full)
        assert len(slots) == 2
        twin, after = two_run_sim(bank, cost, dt), []
        for j, run_shares in enumerate((full, shares)):
            before = sums_of(twin)
            engine._charge(twin, j, j + 1, run_shares)
            after.append(([cap.voltage for cap in twin.bank.capacitors], sums_of(twin)))
            voltages, gains, leaks, spills, _ = zip(*slots[j])
            assert list(voltages) == after[j][0]
            terms = [float.fromhex(x) for x in before]
            for k, addends in enumerate((gains, leaks, spills)):
                for x in addends:
                    terms[k] += x
            assert [x.hex() for x in terms[:3]] == after[j][1][:3]
        assert after[0][0] == held and all(spill > 0.0 for *_, spill, _ in slots[0])
        carried = after[1][0] == held
        verdicts.append(carried)
        assert (i, r) == ((2, 1) if carried else (1, 0))
        assert [cap.voltage for cap in sim.bank.capacitors] == held
        assert sums_of(sim) == after[i - 1][1]

    check()
    assert 4 * sum(verdicts) >= len(verdicts) and 4 * verdicts.count(False) >= len(verdicts)


@pytest.mark.parametrize("policy", ["eam", "fh"])
def test_run_batches_the_attack_and_recharge_of_a_sweep_cell(monkeypatch, tmp_path, policy):
    """The 300 s attack cell of policy_sweep variant 3 (120,000 slots): the
    bounds of _next_check leave the checks idle through the attack and the
    recharge after it, so _charge runs nearly every slot the policy does not.
    eam reads 5 reports where it read one per reported slot (60,000); the
    span steps 48 (eam) and 62 (fh) slots one at a time and calls _charge
    58 and 100 times, as a hold carries across the cell's power runs (317
    and 315 times when each hold stopped at its run's end)."""
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
    assert calls["_charge"] <= 120


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
        assert n == len([e for e in of_kind(log, "release") if e[2] == tid])

    # Availability equals the fraction of timeline rows at or above v_on.
    for comp, buf in log.totals["component_buffers"].items():
        von = cfg.bank.capacitors[buf].v_on
        column = log.timeline_v[buf :: len(cfg.bank)]  # row-major, a voltage per buffer
        assert len(column) == log.totals["n_slots"]
        frac = sum(v >= von for v in column) / log.totals["n_slots"]
        assert report.availability[comp] == frac

    # Completion counters against the raw finish events.
    sinks = [e for e in of_kind(log, "finish") if e[3] == 1]
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
