"""Shared pytest/hypothesis setup."""

import importlib.util
from pathlib import Path

from hypothesis import HealthCheck, settings

from eamsim.engine import _finalize, init_sim, run, step

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
