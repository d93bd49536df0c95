"""Shared pytest/hypothesis setup."""

import importlib.util
from pathlib import Path

from hypothesis import HealthCheck, settings

import eamsim.detector as detector
from eamsim.apps import AppSpec, Profile, TaskSpec
from eamsim.energy import Capacitor, CapacitorBank, Component
from eamsim.engine import SimConfig, _finalize, init_sim, run, step
from eamsim.policy import PolicyParams

# The bundled run configurations, found from this file so that the suite runs
# from any working directory.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The benchmark's workload definitions (perfbench/workloads.py), read only:
# storm_config(variant) is the attack_storm run configuration, and golden.json
# beside it holds the artifact digests of every benchmark input.
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)

# --set overrides of hvac_attack.yaml: the attack at 300 s of a 600 s run, a
# late, noisy detector and a timeline row per slot.  eam's remaining-time
# estimates then fall on both sides of its thresholds.
NOISY_HVAC = (
    "attacks.0.start_s=300",
    "sim.horizon_s=600",
    "detector.detection_delay_s=1.5",
    "detector.remaining_time_error=0.35",
    "sim.timeline_stride=1",
)


def full_bank_config(policy, trace, n_buffers=1):
    """A bank of full buffers that leak little, fed by trace for 200 s of
    0.01 s slots, with a chain of one task per buffer that is never
    released, under policy."""
    tasks = tuple(
        TaskSpec(id=f"T{k}", energy_cost=1e-6, duration=0.01, buffer=k,
                 rates={p: 0.0 for p in Profile}, predecessors=(f"T{k - 1}",) if k else ())
        for k in range(n_buffers)
    )
    return SimConfig(
        trace=trace,
        app=AppSpec(name="idle", tasks=tasks, sink_task=tasks[-1].id),
        bank=CapacitorBank(
            capacitors=[Capacitor(capacitance=c, drain_fraction=1e-7, voltage=3.0)
                        for c in (100e-6, 47e-6)[:n_buffers]],
            component_map={b: (c,) for b, c in zip(range(n_buffers), Component)},
        ),
        params=PolicyParams(),
        policy=policy,
        dt=0.01,
        horizon=200.0,
        timeline_stride=7,
    )


def count_draws(monkeypatch) -> list:
    """Count the draws of the detector's remaining-time noise, each of which
    reseeds its generator once (detector.estimate), in the one-item list
    returned."""
    draws, reseed = [0], detector._reseed

    def counted(key):
        draws[0] += 1
        reseed(key)

    monkeypatch.setattr(detector, "_reseed", counted)
    return draws


def of_kind(log, kind):
    """The events of one kind in a run's EventLog, in order."""
    return [e for e in log.events if e[1] == kind]


def assert_run_matches_steps(config):
    """engine.run gives the events, totals and timeline of calling
    engine.step on every slot, bit for bit."""
    _, fast = run(config)
    sim = init_sim(config)
    while sim.i < sim.n_slots:
        step(sim)
    _, slow = _finalize(sim)

    assert fast.events == slow.events
    assert repr(fast.totals) == repr(slow.totals)
    for name in ("timeline_v", "timeline_profile", "timeline_running"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name
    # Row times are computed from these alone (EventLog.timeline_times).
    assert (fast.timeline_stride, repr(fast.dt)) == (slow.timeline_stride, repr(slow.dt))


settings.register_profile(
    "sim",
    deadline=None,  # single shared CPU; wall-clock deadlines only cause flakes
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # keep the suite deterministic run-to-run
)
settings.load_profile("sim")
