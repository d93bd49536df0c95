"""Shared pytest/hypothesis setup."""

from pathlib import Path

from hypothesis import HealthCheck, settings

# The bundled run configurations, found from this file so that the suite runs
# from any working directory.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

settings.register_profile(
    "sim",
    deadline=None,  # single shared CPU; wall-clock deadlines only cause flakes
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # keep the suite deterministic run-to-run
)
settings.load_profile("sim")
