"""Shared pytest/hypothesis setup."""

from pathlib import Path

from hypothesis import HealthCheck, settings

# The bundled run configurations, found from this file so that the suite runs
# from any working directory.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

settings.register_profile(
    "sim",
    deadline=None,  # single shared CPU; wall-clock deadlines only cause flakes
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # keep the suite deterministic run-to-run
)
settings.load_profile("sim")
